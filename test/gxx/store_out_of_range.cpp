// g++: 7
// Out-of-range values stored into narrow and unsigned integers wrap.
int main() {
  signed char a = 200;
  unsigned char b = 0;
  b = 300;
  short c = 40000;
  unsigned short d = 0;
  d = 70000;
  unsigned e = 0;
  e = -1;
  int ok = (a == -56) + (b == 44) + (c == -25536) + (d == 4464) + (e == 4294967295u);
  return ok == 5 ? 7 : ok;
}
