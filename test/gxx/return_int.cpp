// g++: 20
// A double returned from an int function is converted to int.
int f() { return 2.7; }

int main() {
  return f() * 10;
}
