// g++: 30
// Assigning a double to an int variable truncates.
int main() {
  int x = 0;
  x = 3.9;
  return x * 10;
}
