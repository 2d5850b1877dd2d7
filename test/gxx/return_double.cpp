// g++: 35
// An int returned from a double function is converted to double.
double f() { return 7; }

int main() {
  return (int)(f() / 2 * 10);
}
