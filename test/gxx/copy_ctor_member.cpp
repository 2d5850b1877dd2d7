// g++: 1
// A member initializer from an object of the member's class runs its
// written copy constructor.
class Count {
public:
  int n;
  Count() : n(0) { }
  Count(const Count &o) : n(o.n + 1) { }
};
class Holder {
public:
  Count c;
  Holder(const Count &x) : c(x) { }
};
int main() { Count a; Holder h(a); return h.c.n; }
