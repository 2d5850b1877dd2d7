// g++: 30
// A double argument to an int parameter is truncated on entry.
int f(int x) { return x / 2 * 10; }

int main() {
  return f(7.9);
}
