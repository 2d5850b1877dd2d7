// g++: 21
// A class without its own operator= assigns through its implicit one,
// which copies its own fields too, not only the base's operator=.
class Base {
public:
  Base & operator=(const Base & o) { v = o.v; return *this; }
  int v;
};
class Der : public Base {
public:
  int w;
};
int main() {
  Der a;
  a.v = 1;
  a.w = 2;
  Der b;
  b.v = 5;
  b.w = 6;
  b = a;
  return b.v + b.w * 10;
}
