// g++: 1
// T x = e; with a scalar e runs the converting constructor sema picked.
class F {
public:
  F(short) : k(1) { }
  F(int) : k(2) { }
  int k;
};
int main() {
  short s = 1;
  F f = s;
  return f.k;
}
