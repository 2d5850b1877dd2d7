// g++: 30
// A store to an element of an int array truncates.
int main() {
  int a[2];
  a[0] = 0;
  a[1] = 3.9;
  return (a[0] + a[1]) * 10;
}
