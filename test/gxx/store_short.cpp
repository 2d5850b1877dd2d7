// g++: 7
// A short local and a short assignment keep the low 16 bits.
int main() {
  short s = 70000;
  short t = 0;
  t = 70000;
  return s == 4464 && t == 4464 ? 7 : 1;
}
