// g++: 7
// Assignment through a pointer parameter writes the caller's object.
class C {
public:
  C() : v(1) { }
  int v;
};

void put(C *p, const C &s) { *p = s; }

int main() {
  C a;
  C b;
  b.v = 7;
  put(&a, b);
  return a.v;
}
