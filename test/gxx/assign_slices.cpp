// g++: 3
// Assigning a derived object to a base object copies the base part only.
class Base {
public:
  Base() : k(1) { }
  virtual ~Base() { }
  virtual int id() { return k; }
  int k;
};

class Derived : public Base {
public:
  Derived() { k = 3; }
  virtual int id() { return 25; }
};

int main() {
  Base b;
  Derived d;
  b = d;
  return b.id();
}
