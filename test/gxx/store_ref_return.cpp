// g++: 35
// A store through a returned double& keeps a double.
double g;

double &cell() { return g; }

int main() {
  cell() = 7;
  return (int)(g / 2 * 10);
}
