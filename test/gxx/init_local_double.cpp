// g++: 35
// A local double initialized from an int divides as a double.
int main() {
  double d = 7;
  return (int)(d / 2 * 10);
}
