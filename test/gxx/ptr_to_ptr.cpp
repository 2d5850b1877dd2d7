// g++: 10
// A pointer to a pointer dereferences one level at a time.
void inc(int *q) { *q = *q + 1; }

int main() {
  int x = 0;
  int *p = &x;
  int **pp = &p;
  **pp = 8;
  inc(p);
  inc(&x);
  return x;
}
