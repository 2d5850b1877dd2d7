// g++: 8
// The address of a reference is the address of its referent; *p copies.
class C {
public:
  C() : v(1) { }
  int v;
};

int main() {
  C c;
  C &r = c;
  C *p = &r;
  p->v = 8;
  C d = *p;
  d.v = 1;
  return c.v;
}
