// g++: 3
// A derived object passed to a by-value base parameter is sliced.
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

int f(Base b) { return b.id(); }

int main() {
  Derived d;
  return f(d);
}
