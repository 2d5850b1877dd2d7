// g++: 174
// A class without its own operator= assigns through its implicit one,
// which runs the written operator= of its base and of a class-typed
// member, then copies its other fields.
class Base {
public:
  int v;
  Base & operator=(const Base & o) { v = o.v + 100; return *this; }
};
class Part {
public:
  int k;
  Part & operator=(const Part & o) { k = o.k + 50; return *this; }
};
class Der : public Base {
public:
  int w;
  Part p;
};
int main() {
  Der a;
  a.v = 1;
  a.w = 2;
  a.p.k = 3;
  Der b;
  b.v = 5;
  b.w = 6;
  b.p.k = 7;
  b = a;
  return b.v + b.w * 10 + b.p.k;
}
