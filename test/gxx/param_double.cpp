// g++: 35
// An int argument to a double parameter becomes a double.
int f(double d) { return (int)(d / 2 * 10); }

int main() {
  return f(7);
}
