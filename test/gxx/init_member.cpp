// g++: 20
// A member initializer converts to the field's type.
class C {
public:
  C() : x(2.7) { }
  int x;
};

int main() {
  C c;
  return c.x * 10;
}
