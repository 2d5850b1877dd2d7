// g++: 20
// A local int initialized from a double keeps its integer part.
int main() {
  int x = 2.7;
  return x * 10;
}
