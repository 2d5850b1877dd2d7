// g++: 7
// Assigning through a pointer to an int writes the int.
int main() {
  int x = 1;
  int *px = &x;
  *px = 7;
  return x;
}
