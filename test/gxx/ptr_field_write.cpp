// g++: 5
// Writing a field through a pointer writes the object pointed at.
class Cell {
public:
  Cell() : v(1) { }
  int v;
};

int main() {
  Cell c;
  Cell *pc = &c;
  pc->v = 5;
  return c.v;
}
