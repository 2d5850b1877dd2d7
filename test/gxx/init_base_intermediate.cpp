// g++: 5
// An intermediate class's base initializer runs when a class derived
// from it is built.
class A {
public:
  A(int k) : a(k) { }
  A() : a(0) { }
  int a;
};
class B : public A {
public:
  B() : A(5) { }
};
class C : public B {
public:
  C() : B() { }
};
int main() { C c; return c.a; }
