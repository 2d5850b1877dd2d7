// g++: 64
// A namespace-scope direct initialization constructs a class global with
// the constructor its value picks and binds a scalar global to its type.
class Foo {
public:
  int v;
  Foo(int x) : v(x * 2) { }
};
Foo g(3);
int h(4);
int main() { return g.v * 10 + h; }
