// g++: 100
// A cast to unsigned int zero-extends 32 bits; a cast to int keeps the low 32.
int main() {
  unsigned int u = (unsigned int)-1;
  return (int)(u % 200) + (int)4294967301LL;
}
