// g++: 28
// Calls sema does not elaborate run too: a method, a member operator, a
// free operator and a call given a pointer in global initializers, and a
// method in a default argument.
class C {
public:
  int get() { return 5; }
  int operator+(int k) { return 10 + k; }
};
int operator*(int k, C & c) { return k * 100; }
int deref(int * p) { return *p; }
C c;
int seven = 7;
int g = c.get();
int h = c + 1;
int k = 2 * c;
int d = deref(&seven);
int f(int x = c.get()) { return x; }
int main() {
  return g + h + f() + k - 200 + d;
}
