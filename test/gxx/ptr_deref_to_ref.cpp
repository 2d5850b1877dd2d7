// g++: 7
// *p passed to a reference parameter binds the object pointed at.
class B {
public:
  B() : v(1) { }
  int v;
};

void setref(B &r) { r.v = 7; }

int main() {
  B b;
  B *p = &b;
  setref(*p);
  return b.v;
}
