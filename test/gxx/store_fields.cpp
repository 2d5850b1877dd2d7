// g++: 30
// Stores to c.x, p->x and a field of this convert to the field's type.
class C {
public:
  C() : x(0) { }
  void set(double v) { x = v; }
  int x;
};

int main() {
  C a;
  C b;
  C c;
  a.x = 1.3;
  C *p = &b;
  p->x = 1.3;
  c.set(1.3);
  return (a.x + b.x + c.x) * 10;
}
