// g++: 21
// An int lvalue argument picks f(int); its address picks f(int *).
int f(int x) { return 2; }
int f(int *p) { return 1; }

int main() {
  int a = 0;
  return f(a) * 10 + f(&a);
}
