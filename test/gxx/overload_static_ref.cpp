// g++: 10
// A Base & bound to a Derived picks f(Base &): overloads go by static type.
class Base {
public:
  int x;
};
class Derived : public Base {
public:
  int y;
};
int f(Base & b) { return 1; }
int f(Derived & d) { return 2; }
int main() {
  Derived d;
  Base & r = d;
  return f(r) * 10;
}
