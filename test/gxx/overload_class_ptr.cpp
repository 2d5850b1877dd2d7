// g++: 12
// An A * picks q(A *); the address of a B2 picks q(B2 *).
class A {
public:
  int x;
};
class B2 {
public:
  int y;
};
int q(A * p) { return 1; }
int q(B2 * p) { return 2; }
int main() {
  A a;
  B2 b;
  A * pa = &a;
  return q(pa) * 10 + q(&b);
}
