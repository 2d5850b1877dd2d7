// g++: 31
// B::val() inside the override D::val runs B's on the same object.
class B {
public:
  virtual int val() { return 1; }
};
class D : public B {
public:
  int val() { return 30 + B::val(); }
};
int main() {
  D d;
  B * p = &d;
  return p->val();
}
