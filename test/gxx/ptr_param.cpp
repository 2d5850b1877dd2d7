// g++: 9
// A pointer parameter reaches the caller's object uncopied.
class Cell {
public:
  Cell() : v(1) { }
  int v;
};

void set(Cell *p) { p->v = 9; }

int main() {
  Cell c;
  set(&c);
  return c.v;
}
