// g++: 9
// Call edges sema must record: the free operator* with a scalar left
// operand, no V::operator== for two V *, and V::val() in an override as a
// direct (non-virtual) call.
class V {
public:
  V(int x) : x_(x) { }
  virtual int val() const { return x_; }
  bool operator==(const V & o) const { return x_ == o.x_; }
  int x_;
};
class W : public V {
public:
  W(int x) : V(x) { }
  int val() const { return V::val() + 1; }
};
V operator*(int k, const V & v) { return V(k * v.x_); }
int main() {
  W w(3);
  V a = 2 * w;
  V * p = &a;
  V * q = &w;
  return a.x_ + (p == q) + w.val() - 1;
}
