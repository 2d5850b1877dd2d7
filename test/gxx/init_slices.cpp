// g++: 3
// Initializing a base object from a derived one copies the base part.
class Base {
public:
  Base() : k(0) { }
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
  Derived d;
  Base b = d;
  return b.id();
}
