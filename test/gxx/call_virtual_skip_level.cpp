// g++: 3
// An override is virtual when any ancestor declares the function virtual,
// even through a class that does not redeclare it.
class A {
public:
  virtual int f() { return 1; }
};
class B : public A { };
class C : public B {
public:
  int f() { return 2; }
};
class D : public C {
public:
  int f() { return 3; }
};
int main() {
  D d;
  C * p = &d;
  return p->f();
}
