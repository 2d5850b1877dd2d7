// g++: 12
// An enumerator picks k(Color); a double picks k(double).
enum Color { RED, GREEN };
int k(Color c) { return 1; }
int k(double d) { return 2; }
int main() {
  return k(GREEN) * 10 + k(2.5);
}
