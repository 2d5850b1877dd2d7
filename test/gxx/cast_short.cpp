// g++: 7
// A cast to short keeps the low 16 bits.
int main() {
  return (short)70000 == 4464 ? 7 : 1;
}
