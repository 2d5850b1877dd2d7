// g++: 43
// Postfix ++ on an object calls operator++(int), which returns the old value.
class V {
public:
  V(int x) : x(x) { }
  V operator++(int) { V old = *this; x = x + 1; return old; }
  int x;
};

int main() {
  V v(3);
  V w = v++;
  return v.x * 10 + w.x;
}
