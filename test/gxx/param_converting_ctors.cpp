// g++: 123
// A by-value F parameter is built by the constructor each argument picks.
class F {
public:
  F(int n) : k(1) { }
  F(const char * s) : k(2) { }
  F(double d) : k(3) { }
  int k;
};
int get(F f) { return f.k; }
int main() {
  return get(5) * 100 + get("s") * 10 + get(2.5);
}
