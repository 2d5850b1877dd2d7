// g++: 44
// An unsigned char initialized from 300 keeps 300 mod 256.
int main() {
  unsigned char u = 300;
  return u;
}
