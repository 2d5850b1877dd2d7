// g++: 66
// *p = b copies b into the object p points at; later writes to b do not show.
class C {
public:
  C() : v(1) { }
  int v;
};

int main() {
  C a;
  C b;
  b.v = 6;
  C *p = &a;
  *p = b;
  b.v = 2;
  return a.v * 10 + p->v;
}
