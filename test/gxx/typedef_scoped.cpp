// g++: 23
// A typedef names the type its scope binds: inside Fixed, Real is int.
typedef double Real;
struct Fixed {
  typedef int Real;
  int tenths(double v) { Real r = v; return r * 10; }
};
int main() { Fixed f; Real x = 0.3; return f.tenths(2.7) + (int)(x * 10); }
