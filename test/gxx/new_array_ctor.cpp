// g++: 2
// new Cell[3] runs Cell's default constructor for each element.
class Cell {
public:
  Cell() : v(1) { }
  int v;
};
int main() {
  Cell * cs = new Cell[3];
  return cs[0].v + cs[2].v;
}
