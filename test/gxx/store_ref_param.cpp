// g++: 40
// A store through an int& parameter truncates.
void set(int &r) { r = 4.9; }

int main() {
  int x = 0;
  set(x);
  return x * 10;
}
