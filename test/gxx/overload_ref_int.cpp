// g++: 21
// An object lvalue argument picks g(const V &); an int lvalue picks g(int).
class V {
public:
  V() : x(0) { }
  int x;
};

int g(int n) { return 1; }
int g(const V &v) { return 2; }

int main() {
  V v;
  int n = 4;
  return g(v) * 10 + g(n);
}
