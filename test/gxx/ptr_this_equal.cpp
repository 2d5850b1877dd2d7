// g++: 16
// A pointer returned as this is the address of the object it was called on.
class A {
public:
  A() : v(0) { }
  A *self() { return this; }
  int v;
};

int main() {
  A a;
  A *p = a.self();
  p->v = 6;
  return a.v + (p == &a ? 10 : 0);
}
