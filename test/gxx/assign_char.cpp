// g++: 65
// Assigning 321 to a char keeps its low 8 bits.
int main() {
  char c = 'a';
  c = 321;
  return c;
}
