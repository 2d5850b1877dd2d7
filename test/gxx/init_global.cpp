// g++: 20
// A global int initialized from a double keeps its integer part.
int g = 2.7;

int main() {
  return g * 10;
}
