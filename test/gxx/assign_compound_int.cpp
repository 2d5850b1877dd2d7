// g++: 30
// x += 2.9 on an int stores the truncated sum.
int main() {
  int x = 1;
  x += 2.9;
  return x * 10;
}
