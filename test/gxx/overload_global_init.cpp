// g++: 21
// An overloaded call in a global initializer picks by its arguments.
int f(int x) { return 1; }
int f(double x) { return 2; }
int g = f(2.5) * 10 + f(3);
int main() {
  return g;
}
