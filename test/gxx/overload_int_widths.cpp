// g++: 123
// A short, a long and an int argument each pick the overload of their width.
int f(short x) { return 1; }
int f(long x) { return 2; }
int f(int x) { return 3; }
int main() {
  short s = 1;
  long l = 2;
  int i = 3;
  return f(s) * 100 + f(l) * 10 + f(i);
}
