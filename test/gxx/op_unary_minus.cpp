// g++: 7
// Unary minus on an object calls the class's operator-.
class V {
public:
  V(int x) : x(x) { }
  V operator-() const { return V(-x); }
  int x;
};

int main() {
  V v(-7);
  V w = -v;
  return w.x;
}
