// g++: 5
// *this = d assigns into the object the member function runs on.
class C {
public:
  C() : v(1) { }
  void take(const C &d) { *this = d; }
  int v;
};

int main() {
  C a;
  C b;
  b.v = 5;
  a.take(b);
  return a.v;
}
