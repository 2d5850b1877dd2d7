// g++: 2
// p == q on two V * compares the pointers; V::operator== is not called.
class V {
public:
  V(int x) : x(x) { }
  bool operator==(const V & o) const { return true; }
  int x;
};
int main() {
  V a(1);
  V b(2);
  V * p = &a;
  V * q = &b;
  return (p == q) + (p == p) * 2;
}
