// g++: 7
// Prefix ++ on an object calls the class's operator++().
class V {
public:
  V(int x) : x(x) { }
  V &operator++() { x = x + 1; return *this; }
  int x;
};

int main() {
  V v(6);
  ++v;
  return v.x;
}
