// g++: 21
// A base initializer and a copy from a derived object run the written
// copy constructor.
class Count {
public:
  int n;
  Count() : n(0) { }
  Count(const Count &o) : n(o.n + 1) { }
};
class Tagged : public Count {
public:
  int tag;
  Tagged() : tag(1) { }
  Tagged(const Tagged &o) : Count(o), tag(o.tag + 1) { }
};
int main() { Tagged a; Tagged b(a); Count c = b; return c.n * 10 + b.tag - 1; }
