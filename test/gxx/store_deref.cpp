// g++: 30
// A store through *p converts to the pointee type.
int main() {
  int x = 0;
  int *p = &x;
  *p = 3.9;
  return x * 10;
}
