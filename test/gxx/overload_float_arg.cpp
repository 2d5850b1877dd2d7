// g++: 123
// A float argument picks h(double) over h(int) and h(const char *).
int h(const char * s) { return 1; }
int h(int n) { return 2; }
int h(double d) { return 3; }
int main() {
  float f = 1.5;
  return h("x") * 100 + h(4) * 10 + h(f);
}
