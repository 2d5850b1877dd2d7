// g++: 14
// Assigning a pointer changes what it points at, not the object.
class Cell {
public:
  Cell() : v(1) { }
  int v;
};

int main() {
  Cell c;
  Cell d;
  Cell *pc = &c;
  pc = &d;
  pc->v = 4;
  return c.v * 10 + d.v;
}
