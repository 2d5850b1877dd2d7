// g++: 11
// A pointer stored in a field keeps the address it was given.
class Target {
public:
  Target() : x(1) { }
  int x;
};

class Holder {
public:
  Holder() : p(0) { }
  Target *p;
};

int main() {
  Target target;
  Holder q;
  q.p = &target;
  q.p->x = 11;
  return target.x;
}
