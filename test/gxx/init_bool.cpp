// g++: 2
// A bool initialized from 5 holds true, which adds as 1.
int main() {
  bool b = 5;
  return b + 1;
}
