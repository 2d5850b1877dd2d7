// g++: 35
// A store to an element of new double[3] keeps a double.
int main() {
  double *p = new double[3];
  p[0] = 7;
  int r = (int)(p[0] / 2 * 10);
  delete [] p;
  return r;
}
