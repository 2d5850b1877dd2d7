// g++: 12
// A non-virtual member called through a B * runs B's, whatever the object.
class B {
public:
  int who() { return 1; }
};
class D : public B {
public:
  int who() { return 2; }
};
int main() {
  D d;
  B * p = &d;
  return p->who() * 10 + d.who();
}
