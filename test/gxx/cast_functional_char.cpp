// g++: 7
// char(x) converts as (char)x does.
int main() {
  return char(321) == 'A' ? 7 : 1;
}
