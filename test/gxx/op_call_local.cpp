// g++: 10
// A local object called like a function goes through its operator().
class F {
public:
  int operator()(int a, int b) { return a * b; }
};

int main() {
  F v;
  return v(2, 5);
}
